"""Fixed-step implicit-Euler integration of the delay models, one delay block at a time."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DIVERGENCE_GUARD,
    Classification,
    ClassificationEvidence,
    DerivativeMode,
    Mesh,
    ModelKind,
    NonFiniteStateError,
    SimConfig,
    Trajectory,
    diameter_series,
)
from .diagnostics import TOL_HIGH, TOL_LOW, classify_series


def _pairwise(weights: np.ndarray, targets: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    # Sum_j w_ij (targets_j - anchors_i) for one (N, d) node or a (T, N, d)
    # block, with the subtraction done per pair so a consensus state yields
    # exactly zero in floating point.
    diff = targets[..., None, :, :] - anchors[..., :, None, :]
    return np.einsum("ij,...ijk->...ik", weights, diff)


def _scan(ufunc, x: np.ndarray, steps: np.ndarray) -> np.ndarray:
    # x(b+s) = ufunc(x(b+s-1), steps[s]), applied in node order as a per-step
    # loop would: x holds the lanes' states (L, ...), steps (L, count, ...).
    seeded = np.concatenate((x[:, None], steps), axis=1)
    return ufunc.accumulate(seeded, axis=1)[:, 1:]


def _block_advance(config: SimConfig, dt: float, delayed: bool):
    """The model's update over one block: advance(x, z, count, dt, rhs) -> (states, rhs).

    ``x`` holds the states of the block's L lanes at its last accepted node,
    ``z`` the anticipated delayed inputs x(k) + lam*tau*D(k), k = n+1-m, of
    the block's ``count`` steps (None when tau = 0), and ``dt`` the lanes'
    steps. The two gap models hold one scalar per lane and node: ``x`` is
    (L,), ``z`` (L, count) and ``dt`` (L, 1); the N-agent models take one
    lane, x (1, N, d) and z (1, count, N, d), whose step ``dt`` is fixed when
    the update is built. Returns the next ``count`` states of each lane and,
    when ``rhs`` is true, the right-hand sides recorded as their derivatives
    (else None), both shaped (L, count) or (1, count, N, d). Each lane is
    computed with the same operations as a run of its own.
    """
    model = config.model
    if model.is_scalar:
        if not delayed:
            # Both gap equations reduce to x' = -2x; implicit Euler divides by 1 + 2 dt.
            def advance(x, z, count, dt, rhs):
                new = _scan(np.multiply, x, np.broadcast_to(1.0 / (1.0 + 2.0 * dt), (len(x), count)))
                return new, -2.0 * new if rhs else None
        elif model is ModelKind.TWO_AGENT_TRANSMISSION:
            # Implicit Euler of x' = -x - z: x(n+1) = (x(n) - dt z) / (1 + dt),
            # looped on Python floats lane by lane: per step that is far
            # cheaper than NumPy scalar arithmetic.
            def advance(x, z, count, dt, rhs):
                columns = []
                for step, gap, inputs in zip(dt.ravel().tolist(), x.tolist(), z.tolist()):
                    column, denominator = [], 1.0 + step
                    for anticipated in inputs:
                        gap = (gap - step * anticipated) / denominator
                        column.append(gap)
                    columns.append(column)
                new = np.array(columns, dtype=float)
                return new, -z - new if rhs else None
        else:
            # x' = -2 z with z known: x(n+1) = x(n) - 2 dt z.
            def advance(x, z, count, dt, rhs):
                return _scan(np.add, x, (-2.0 * dt) * z), -2.0 * z if rhs else None
        return advance

    weights = config.weights
    w = weights.off_diagonal() if model is ModelKind.TRANSMISSION else weights.weights
    if not delayed:
        # tau = 0 degenerates both models to ODEs; implicit Euler is solved in
        # increment form so a consensus state stays an exact fixed point.
        eye = np.eye(weights.n)
        if model is ModelKind.TRANSMISSION:
            system = (1.0 + dt) * eye - dt * w
        else:
            system = eye + dt * (np.diag(w.sum(axis=1)) - w)
        propagate = np.linalg.inv(system)

        def advance(x, z, count, rhs):
            new = np.empty((count,) + x.shape)
            for s in range(count):
                x = x + dt * (propagate @ _pairwise(w, x, x))
                new[s] = x
            return new, _pairwise(w, new, new) if rhs else None
    elif model is ModelKind.TRANSMISSION:
        # (x_i(n+1) - x_i(n)) / dt = sum_j w_ij (z_j - x_i(n+1)); with
        # off-diagonal row sums equal to 1 the closed form is
        # x(n+1) = x(n) + dt/(1+dt) * sum_j w_ij (z_j - x_i(n)).
        gain = dt / (1.0 + dt)

        def advance(x, z, count, rhs):
            new = np.empty_like(z)
            for s in range(count):
                x = x + gain * _pairwise(w, z[s], x)
                new[s] = x
            return new, _pairwise(w, z, new) if rhs else None
    else:
        # x_i' = sum_j w_ij (z_j - z_i): every term is known, so the implicit
        # scheme is a direct update; diagonal weights cancel in the differences.
        def advance(x, z, count, rhs):
            rates = _pairwise(w, z, z)
            return _scan(np.add, x[None], (dt * rates)[None])[0], rates

    def one_lane(x, z, count, dt, rhs):
        new, rates = advance(x[0], None if z is None else z[0], count, rhs)
        return new[None], None if rates is None else rates[None]
    return one_lane


def _guard_values(states: np.ndarray) -> np.ndarray:
    """The (L, count) values of a block of states held against the guard."""
    if states.ndim == 2:
        return np.abs(states)
    # Euclidean norm of per-coordinate ranges: an upper bound on the diameter
    # within a factor sqrt(d), so the guard can only fire earlier than the
    # exact diameter would. The stacked product evaluates each row as np.dot.
    spread = states.max(axis=2) - states.min(axis=2)
    rows = spread.reshape(-1, spread.shape[-1])
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0]).reshape(spread.shape[:2])


def run(config: SimConfig, tol_low: float = TOL_LOW, tol_high: float = TOL_HIGH) -> Trajectory:
    """Integrate one configuration and classify the resulting trajectory.

    The delay is exactly m steps, so the inputs of the next m steps are all
    known (the method of steps): the run advances one block of m steps at a
    time through one history array whose first rows hold the datum. The two
    gap models run as N = d = 1.

    Runs are aborted (classification Diverged) at the first node whose state
    is non-finite or whose opinion diameter exceeds DIVERGENCE_GUARD times
    max(1, d_x(0)); a node over the guard is recorded, a non-finite one is not.
    ``tol_low`` and ``tol_high`` are ``classify_series``'s.
    """
    (lane,) = _integrate([config], True)
    return _assemble(config, *lane, tol_low, tol_high)


def run_lanes(configs) -> list[Trajectory]:
    """Run every configuration in ``configs`` as a lane of one batch.

    The lanes share the model, steps_per_delay, derivative mode, N and d;
    they may differ in tau, lambda, t_end and the datum, which each lane
    samples on its own mesh. Each lane carries its own step dt and gain
    lam*(dt*m). With m shared, a delay block is m rows in every lane, so the
    lanes advance block by block in lockstep, each aborting on its own and
    leaving the batch at its own horizon; lanes at tau = 0 (an ODE step, no
    history window) run as a second batch. Trajectory i equals
    ``run(configs[i])`` bit for bit. Only the two-agent gap models take more
    than one lane. Callers that read only the verdicts use ``classify_lanes``,
    which runs the same kernel without recording a trajectory.
    """
    configs = list(configs)
    return [_assemble(config, *lane) for config, lane in zip(configs, _integrate(configs, True))]


def classify_lanes(configs) -> list[tuple[Classification, ClassificationEvidence]]:
    """The classification and evidence of each lane of ``run_lanes(configs)``.

    Entry i equals ``run_lanes(configs)[i]``'s. The lanes run through the same
    kernel, but no trajectory is built: in backward-difference mode no
    right-hand side is computed or stored, and each lane's diameter series
    (|x| for the gap models) goes straight to ``classify_series``. Sweeps and
    bisections read nothing else.
    """
    return [
        classify_series(np.abs(states) if states.ndim == 1 else diameter_series(states)[0],
                        aborted=abort is not None, abort_step=abort)
        for _, states, _, abort in _integrate(list(configs), False)
    ]


def _integrate(configs: list, record: bool) -> list[tuple]:
    # Per lane: its step, its states from node 0 on (one scalar per node for
    # the gap models, else (N, d)), its derivatives when ``record`` is set
    # (else None) and its abort step (None when it ran to its horizon).
    if not configs:
        return []
    if len({(c.model, c.steps_per_delay, c.derivative_mode, c.n, c.d) for c in configs}) > 1:
        raise ValueError("lanes must share the model, steps_per_delay, derivative mode, n and d")
    config = configs[0]
    if not config.model.is_scalar and len(configs) != 1:
        raise ValueError("N-agent models run one lane at a time")
    meshes = [Mesh.build(c.tau, c.steps_per_delay, c.t_end) for c in configs]
    lanes = [None] * len(configs)
    for delayed in (True, False):
        # Longest horizon first, so lanes that reach their horizon leave the
        # batch from its end.
        order = sorted((i for i, mesh in enumerate(meshes) if (mesh.tau > 0) is delayed),
                       key=lambda i: -meshes[i].total_steps)
        if order:
            batch = _run_batch([configs[i] for i in order], [meshes[i] for i in order],
                               (config.n, config.d), record)
            for i, lane in zip(order, batch):
                lanes[i] = lane
    return lanes


def _run_batch(configs, meshes, shape, record) -> list[tuple]:
    # The lanes of ``configs`` are all delayed or all at tau = 0, ordered by
    # non-increasing horizon, and hold (N, d) = ``shape`` states; the gap
    # models keep one scalar per node. An N-agent block meets the guard's
    # cheap bound 4 d max|x| first, and only a block over it has its spreads computed.
    config = configs[0]
    datums = [c.datum.on_mesh(mesh.datum_times) for c, mesh in zip(configs, meshes)]
    for datum_states, datum_derivs in datums:
        if datum_states.shape[1:] != shape:
            raise ValueError(f"datum shape {datum_states.shape[1:]} does not match {shape}")
        if not (np.isfinite(datum_states).all() and np.isfinite(datum_derivs).all()):
            raise NonFiniteStateError("initial datum contains non-finite entries")
    m = config.steps_per_delay
    advance = _block_advance(config, meshes[0].step_size, meshes[0].tau > 0)

    # Row lag + k of a lane holds its mesh node k; rows 0..lag hold the datum
    # on [-tau, 0]. Lane i ends at row ends[i].
    lag = len(datums[0][0]) - 1
    ends = [lag + mesh.total_steps for mesh in meshes]
    node = () if config.model.is_scalar else shape
    states = np.empty((len(configs), ends[0] + 1) + node)
    head = (len(configs), lag + 1) + node
    states[:, : lag + 1] = np.stack([s for s, _ in datums]).reshape(head)
    datum_slopes = np.stack([d for _, d in datums]).reshape(head)
    x0 = states[:, lag]
    guards = DIVERGENCE_GUARD * np.maximum(
        1.0, np.abs(x0) if x0.ndim == 1 else diameter_series(x0)[0])
    # The block check holds every lane to the lowest guard (each lane's own
    # when the lanes share their datum); only a block that trips it is searched,
    # in one pass, for each lane's first node over its own guard.
    guard = guards.min()
    per_lane = (-1,) + (1,) * (states.ndim - 1)
    dts = np.array([mesh.step_size for mesh in meshes]).reshape(per_lane)
    # lam * tau on the mesh, one gain per lane.
    gains = np.array([c.lam for c in configs]).reshape(per_lane) * (dts * m)
    # Row k of ``slopes`` is the derivative D(k) the anticipation term reads:
    # the datum's derivative for k <= 0, then the recorded right-hand side or,
    # written once as each row is accepted, the backward difference. The
    # right-hand sides are computed only when recorded or read.
    backward = lag > 0 and config.derivative_mode is DerivativeMode.BACKWARD_DIFFERENCE
    rhs = record or (lag > 0 and not backward)
    derivs = slopes = None
    if rhs:
        derivs = slopes = np.empty_like(states)
        derivs[:, : lag + 1] = datum_slopes
    if backward:
        slopes = np.empty_like(states)
        slopes[:, : lag + 1] = datum_slopes

    # Lanes in ``live`` all stand at row ``top``; a lane that aborted stops at
    # its own last row and is computed no further.
    live, cols = list(range(len(configs))), slice(None)
    tops = ends[:]
    aborts = [None] * len(configs)
    top = lag
    while live:
        count = min(m, ends[live[-1]] - top)
        rows = slice(top + 1, top + 1 + count)
        z = None
        if lag:
            lo, hi = top + 1 - lag, top + 1 - lag + count
            z = states[cols, lo:hi] + gains[cols] * slopes[cols, lo:hi]
        step = dts[cols]
        new, block_rhs = advance(states[cols, top], z, count, step, rhs)
        states[cols, rows] = new
        if rhs:
            derivs[cols, rows] = block_rhs
        if backward:
            slopes[cols, rows] = (new - states[cols, top : top + count]) / step
        # NaN fails the comparisons, so this also catches non-finite nodes
        # (a non-finite state has a non-finite guard value). An N-agent
        # spread norm is at most 2 sqrt(d) max|x|, so a block within
        # 4 d max|x| <= guard (a factor of 2 spare for rounding) needs no spreads.
        if not (node and 4 * shape[1] * np.abs(new).max() <= guard):
            values = _guard_values(new)
            if not values.max() <= guard:
                # One pass over the block: each lane's first node over its own
                # guard, if any; only the lanes that tripped are visited.
                tripped = ~(values <= guards[cols, None])
                first = tripped.argmax(axis=1)
                hit = tripped.any(axis=1).tolist()
                for i in np.flatnonzero(hit).tolist():
                    lane, f = live[i], int(first[i])
                    aborts[lane] = top - lag + 1 + f
                    # A node over the guard is recorded, a non-finite one is not.
                    tops[lane] = top + f + bool(np.isfinite(new[i, f]).all())
                if any(hit):
                    live = [lane for lane, gone in zip(live, hit) if not gone]
                    cols = _columns(live)
        top += count
        # Lanes leave at their horizon, from the end: ends do not increase.
        while live and ends[live[-1]] == top:
            live.pop()
            cols = _columns(live)

    return [
        (mesh.step_size, states[i, lag : tops[i] + 1],
         derivs[i, lag : tops[i] + 1] if record else None, aborts[i])
        for i, mesh in enumerate(meshes)
    ]


def _columns(live: list) -> slice | np.ndarray:
    # The lane index of the (increasing) live lanes: a plain slice while they
    # are lanes 0..k-1, as they stay while lanes leave from the end.
    if not live or live[-1] == len(live) - 1:
        return slice(len(live))
    return np.array(live)


def _assemble(config, dt, states, derivs, abort_step,
              tol_low=TOL_LOW, tol_high=TOL_HIGH) -> Trajectory:
    count = len(states)
    times = np.arange(count) * dt
    if states.ndim == 1:
        # A gap lane: the diameter is |x|, the (N, d) = (1, 1) axes come
        # back as views, and the mean over the one agent is the gap itself
        # (numpy's mean would turn -0.0 into +0.0).
        diameters = np.abs(states)
        states, derivs = states[:, None, None], derivs[:, None, None]
        means = states[:, 0]
        pairs = np.tile(np.array([1, 2]), (count, 1))
    else:
        diameters, pairs = diameter_series(states)
        means = states.mean(axis=1)
    classification, evidence = classify_series(
        diameters, aborted=abort_step is not None, abort_step=abort_step,
        tol_low=tol_low, tol_high=tol_high,
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

    step_sizes: list
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
    steps = []
    for level in range(levels):
        cfg = replace(config, steps_per_delay=config.steps_per_delay * 2**level)
        traj = run(cfg)
        if traj.classification is Classification.DIVERGED:
            raise ValueError("refine_oracle rejects divergent configurations")
        finals.append(traj.states[-1])
        steps.append(Mesh.build(cfg.tau, cfg.steps_per_delay, cfg.t_end).step_size)
    diffs = [
        float(np.linalg.norm(finals[i + 1] - finals[i])) for i in range(levels - 1)
    ]
    ratios = [
        diffs[i] / diffs[i + 1] if diffs[i + 1] > 0 else math.inf
        for i in range(levels - 2)
    ]
    return RefineResult(step_sizes=steps, end_state_diffs=diffs, ratios=ratios)
