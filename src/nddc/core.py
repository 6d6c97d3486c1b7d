"""Shared domain types: weights, datums, configs, run records, the diameter."""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass, field, fields
from typing import Optional, Union, get_args

import numpy as np

MACHINE_EPS = float(np.finfo(float).eps)

#: Abort a run at a node whose max |x| exceeds this times max(1, M) (``integrator.run``).
DIVERGENCE_GUARD = 1.0e6


class NonFiniteStateError(ValueError):
    """An operation received a state with NaN or infinite entries."""


class MeshAlignmentError(ValueError):
    """A time quantity is not an integer multiple of the mesh step."""


class ModelKind(str, enum.Enum):
    TRANSMISSION = "transmission"
    REACTION = "reaction"
    TWO_AGENT_TRANSMISSION = "two-agent-transmission"
    TWO_AGENT_REACTION = "two-agent-reaction"

    @property
    def is_scalar(self) -> bool:
        """True for the two-agent reductions, which evolve the scalar gap x1 - x2."""
        return self in (ModelKind.TWO_AGENT_TRANSMISSION, ModelKind.TWO_AGENT_REACTION)

    @property
    def is_reaction(self) -> bool:
        return self in (ModelKind.REACTION, ModelKind.TWO_AGENT_REACTION)


class Classification(str, enum.Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    INCONCLUSIVE = "inconclusive"


#: Tolerance of the structural flags' row, column and symmetry checks.
SUM_TOL = 1e-12


def _strongly_connected(adjacency: np.ndarray) -> bool:
    """Strong connectivity of the digraph with an edge i -> j iff adjacency[i, j]:
    node 0 reaches every node along the edges and along the reversed edges."""
    for adj in (adjacency, adjacency.T):
        seen = frontier = np.arange(adj.shape[0]) == 0
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~seen
            seen = seen | frontier
        if not seen.all():
            return False
    return True


def _frozen(values, ndmin: int = 0) -> np.ndarray:
    """A read-only float copy of ``values``: no array a config has judged can change."""
    array = np.array(values, dtype=float, ndmin=ndmin)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class WeightMatrix:
    """Nonnegative N x N communication weights and their five structural flags.

    Built from a square, finite, nonnegative matrix with N >= 2, of which it
    keeps a read-only copy; the flags are computed from that copy, so they are
    always true of it. ``row_stochastic`` refers to off-diagonal row sums (the
    diagonal is ignored by the transmission model and cancels in the reaction
    model), while ``bi_stochastic`` refers to full row and column sums.
    Irreducibility is decided by graph reachability over strictly positive
    off-diagonal entries (an edge exists iff the weight is > 0 exactly).
    """

    weights: np.ndarray
    row_stochastic: bool = field(init=False)
    symmetric: bool = field(init=False)
    bi_stochastic: bool = field(init=False)
    positive_off_diagonal: bool = field(init=False)
    irreducible: bool = field(init=False)

    def __post_init__(self) -> None:
        w = _frozen(self.weights)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weight matrix must be square")
        n = w.shape[0]
        if n < 2:
            raise ValueError("weight matrix needs at least two agents")
        if not np.all(np.isfinite(w)):
            raise ValueError("weight matrix has non-finite entries")
        if np.any(w < 0):
            raise ValueError("weight matrix has negative entries")

        off = w.copy()
        np.fill_diagonal(off, 0.0)
        flags = dict(
            weights=w,
            row_stochastic=bool(np.max(np.abs(off.sum(axis=1) - 1.0)) <= SUM_TOL),
            symmetric=bool(np.max(np.abs(w - w.T)) <= SUM_TOL),
            bi_stochastic=bool(np.max(np.abs(w.sum(axis=1) - 1.0)) <= SUM_TOL
                               and np.max(np.abs(w.sum(axis=0) - 1.0)) <= SUM_TOL),
            positive_off_diagonal=bool(np.all(w[~np.eye(n, dtype=bool)] > 0.0)),
            irreducible=_strongly_connected(off > 0.0),
        )
        for name, value in flags.items():
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def off_diagonal(self) -> np.ndarray:
        """The matrix with the diagonal zeroed (``weights`` itself when that is already zero)."""
        if not self.weights.diagonal().any():
            return self.weights
        w = self.weights.copy()
        np.fill_diagonal(w, 0.0)
        return w


@dataclass(frozen=True)
class ConstantDatum:
    """Initial trajectories x0(t) = c with zero derivative."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen(self.values, ndmin=2))

    def on_mesh(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        k = len(times)
        states = np.repeat(self.values[None, :, :], k, axis=0)
        return states, np.zeros_like(states)


@dataclass(frozen=True)
class LinearDatum:
    """Initial trajectories x0(t) = a + t * b with derivative b."""

    start: np.ndarray
    slope: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", _frozen(self.start, ndmin=2))
        object.__setattr__(self, "slope", _frozen(self.slope, ndmin=2))
        if self.start.shape != self.slope.shape:
            raise ValueError("start and slope must have the same shape")

    def on_mesh(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        times = np.asarray(times, dtype=float)
        states = self.start[None, :, :] + times[:, None, None] * self.slope[None, :, :]
        derivs = np.repeat(self.slope[None, :, :], len(times), axis=0)
        return states, derivs


@dataclass(frozen=True)
class SampledDatum:
    """Initial trajectories given as mesh-aligned (time, state, derivative) samples."""

    times: np.ndarray
    states: np.ndarray
    derivatives: np.ndarray

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _frozen(getattr(self, f.name)))
        if self.states.shape != self.derivatives.shape or len(self.times) != len(self.states):
            raise ValueError("sampled datum arrays are inconsistent")

    def on_mesh(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        times = np.asarray(times, dtype=float)
        if len(times) != len(self.times):
            raise MeshAlignmentError(
                f"datum table has {len(self.times)} samples, mesh needs {len(times)}"
            )
        tol = 1e-12 * max(1.0, float(np.max(np.abs(times))) if len(times) else 1.0)
        if np.max(np.abs(self.times - times)) > tol:
            raise MeshAlignmentError("datum table is not aligned with the mesh")
        return self.states, self.derivatives


Datum = Union[ConstantDatum, LinearDatum, SampledDatum]


def integer(name: str, value, minimum: Optional[int] = None) -> int:
    """``value`` as an int, rejecting fractions rather than truncating them.

    Ints and integral floats are accepted (2.0 -> 2); anything else, a bool
    included, or a value below ``minimum`` when one is given, raises
    ValueError naming ``name``.
    """
    # bool is an Integral: JSON true would otherwise count as 1.
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       or (isinstance(value, float) and value.is_integer())):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def real(name: str, value, minimum: Optional[float] = None) -> float:
    """``value`` as a finite float. A bool, str, None or other non-number, or a
    value below ``minimum`` when one is given, raises ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    # NaN fails the comparison, and so does an int past the largest double.
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be finite, got {value}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum:g}, got {value}")
    return float(value)


def agent_counts(n, d) -> tuple[int, int]:
    """``SimConfig``'s rule for its n agents in d dimensions: integers >= 1."""
    return integer("n", n, minimum=1), integer("d", d, minimum=1)


def _mesh_steps(tau: float, steps_per_delay: int, t_end: float) -> tuple[float, float]:
    # The step dt (tau / m, or 1 / m at tau = 0, where the model is an ODE) and
    # t_end / dt, which must be finite, for a finite and positive t_end.
    dt = tau / steps_per_delay if tau > 0 else 1.0 / steps_per_delay
    steps = check_horizon(t_end) / dt
    if not math.isfinite(steps):
        raise ValueError(f"t_end = {t_end} is too many steps of dt = {dt}")
    return dt, steps


@dataclass(frozen=True)
class Mesh:
    """Equidistant time mesh with the delay an exact integer multiple of the step.

    For tau = 0 the model degenerates to an ODE; the step is then
    1/steps_per_delay (steps_per_delay steps per unit time). ``build`` takes
    tau and steps_per_delay as ``SimConfig`` has checked them.
    """

    tau: float
    steps_per_delay: int
    step_size: float
    total_steps: int

    @classmethod
    def build(cls, tau: float, steps_per_delay: int, t_end: float) -> "Mesh":
        dt, ratio = _mesh_steps(tau, steps_per_delay, t_end)
        total = int(round(ratio))
        if total < 1 or abs(total * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
            raise MeshAlignmentError(f"t_end = {t_end} is not an integer multiple of dt = {dt}")
        return cls(tau=float(tau), steps_per_delay=int(steps_per_delay),
                   step_size=dt, total_steps=total)

    @property
    def datum_times(self) -> np.ndarray:
        """Mesh points of [-tau, 0] (the single point 0 when tau = 0)."""
        if self.tau == 0:
            return np.zeros(1)
        return np.arange(-self.steps_per_delay, 1) * self.step_size


def default_horizon(tau: float) -> float:
    """The horizon of a run given none, max(50, 40*tau), before mesh alignment."""
    return float(max(50, 40 * tau))


def check_horizon(t_target: float) -> float:
    """``t_target``, which must be a finite and positive real (not a bool), else ValueError."""
    # NaN fails the comparison, and so does an int past the largest double.
    if isinstance(t_target, bool) or not (isinstance(t_target, numbers.Real)
                                          and 0 < t_target <= sys.float_info.max):
        raise ValueError(f"t_end must be finite and positive, got {t_target}")
    return t_target


def aligned_t_end(tau: float, steps_per_delay: int, t_target: float) -> float:
    """The smallest positive mesh multiple >= t_target - 1e-9 dt, for a finite and positive
    t_target (``check_horizon``) and a finite tau >= 0 (used by sweeps and presets)."""
    dt, steps = _mesh_steps(real("tau", tau, minimum=0), steps_per_delay, t_target)
    return max(1, math.ceil(steps - 1e-9)) * dt


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run, judged once, when it is built.

    Frozen: vary a built config with ``dataclasses.replace``, which judges the
    result anew. A t_end of None is ``default_horizon(tau)`` rounded up to the
    mesh. Two attributes are not fields: ``mesh``, the config's ``Mesh``, and
    ``history``, the datum's read-only (states, slopes) on the mesh's
    [-tau, 0], which must be finite and (N, d) per node. The seed is only a
    manifest label, so any integer is kept.
    """

    model: ModelKind
    tau: float
    lam: float
    datum: Datum
    n: int = 2
    d: int = 1
    steps_per_delay: int = 32
    t_end: Optional[float] = None
    weights: Optional[WeightMatrix] = None
    seed: int = 0

    def __post_init__(self) -> None:
        def put(name: str, value) -> None:
            object.__setattr__(self, name, value)

        put("model", ModelKind(self.model))
        # A fractional step count would keep dt = tau / m but delay by int(m) steps.
        put("steps_per_delay", integer("steps_per_delay", self.steps_per_delay, minimum=1))
        n, d = agent_counts(self.n, self.d)
        put("n", n)
        put("d", d)
        put("seed", integer("seed", self.seed))
        put("tau", real("tau", self.tau, minimum=0))
        put("lam", real("lambda", self.lam, minimum=0))
        put("t_end", real("t_end", self.t_end) if self.t_end is not None else
            aligned_t_end(self.tau, self.steps_per_delay, default_horizon(self.tau)))
        # Not a field, so ``replace`` builds a new one and ``==`` ignores it.
        put("mesh", Mesh.build(self.tau, self.steps_per_delay, self.t_end))
        if self.model.is_scalar:
            if (n, d) != (1, 1) or self.weights is not None:
                raise ValueError(f"{self.model.value} takes n = d = 1 and no weights")
        elif not isinstance(self.weights, WeightMatrix):
            raise ValueError(f"the {self.model.value} model needs a weight matrix, "
                             f"got {type(self.weights).__name__}")
        elif self.weights.n != n:
            raise ValueError(f"weight matrix size {self.weights.n} does not match n = {n}")
        elif self.model is ModelKind.TRANSMISSION and not self.weights.row_stochastic:
            raise ValueError("the transmission model needs off-diagonal row sums of 1")
        if not isinstance(self.datum, get_args(Datum)):
            raise ValueError("the datum must be a ConstantDatum, LinearDatum or SampledDatum, "
                             f"got {type(self.datum).__name__}")
        put("history", tuple(map(_frozen, self.datum.on_mesh(self.mesh.datum_times))))
        states, slopes = self.history
        if states.shape[1:] != (n, d):
            raise ValueError(f"datum shape {states.shape[1:]} does not match {(n, d)}")
        if not (np.isfinite(states).all() and np.isfinite(slopes).all()):
            raise NonFiniteStateError("initial datum contains non-finite entries")


@dataclass
class ClassificationEvidence:
    """Trailing-window amplitude statistics backing a run classification.

    ``rate`` is the fitted decay rate of the diameter's envelope per unit
    time, NaN unless the horizon rules left the run undecided and a fit ran.
    """

    initial_dx: float
    final_dx: float
    trailing_peak: float
    trailing_ratio: float
    aborted: bool = False
    abort_step: Optional[int] = None
    rate: float = float("nan")


@dataclass
class Trajectory:
    """Recorded time series of one run plus per-step diagnostics.

    ``states`` and ``derivatives`` have shape (K+1, N, d) over mesh nodes
    0..K (t >= 0). ``derivatives`` holds the delayed derivative D(k) the
    anticipation term reads: the datum's slope at node 0, then the backward
    difference (x(k) - x(k-1)) / dt, bit for bit as the scheme forms it.
    ``argmax_pairs`` holds the 1-based agent pair attaining the diameter at
    each node; for the two-agent scalar reductions the stored state is the gap
    x1 - x2, the diameter series is |x|, the pair is (1, 2), and the mean over
    the one agent is x. Only they have N = d = 1 (a weight matrix has N >= 2).
    """

    config: SimConfig
    times: np.ndarray
    states: np.ndarray
    derivatives: np.ndarray
    diameters: np.ndarray
    argmax_pairs: np.ndarray
    means: np.ndarray
    classification: Classification
    evidence: ClassificationEvidence

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def diameter(state) -> tuple[float, tuple[int, int]]:
    """Maximum pairwise Euclidean distance and the attaining agent pair.

    Ties are broken by the lexicographically smallest 1-based pair (i, j),
    i < j, so the result is a total order over argmax candidates.
    """
    values = np.asarray(state, dtype=float)
    if values.ndim != 2 or values.shape[0] < 2:
        raise ValueError("diameter needs an N x d state with N >= 2")
    if not np.all(np.isfinite(values)):
        raise NonFiniteStateError("diameter of a non-finite state")
    dists, pairs = diameter_series(values[None, :, :])
    return float(dists[0]), (int(pairs[0, 0]), int(pairs[0, 1]))


def diameter_series(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diameters and 1-based argmax pairs of a (T, N >= 2, d) stack, over the pairs
    i < j in lexicographic order, so ties (and NaN) go to the smallest (i, j). Past
    |x| = 2^500, where a square could overflow, a chunk's nodes are each scaled
    exactly by the power of two of their largest |x|, and their distances back."""
    states = np.asarray(states, dtype=float)
    t_total, n, d = states.shape
    first, second = np.triu_indices(n, 1)
    dists = np.empty(t_total)
    pairs = np.empty((t_total, 2), dtype=int)
    chunk = max(1, 65536 // max(1, len(first) * d))
    for s in range(0, t_total, chunk):
        block = states[s : s + chunk]
        exps = 0
        # Under 2^500 no square overflows, and the per-node max would cost as much as the rest.
        if np.abs(block).max() > 2.0**500:
            exps = np.frexp(np.abs(block).max(axis=(1, 2), keepdims=True))[1]
            block = np.ldexp(block, -exps)
        diff = np.take(block, first, axis=1) - np.take(block, second, axis=1)
        d2 = np.einsum("tpk,tpk->tp", diff, diff)
        idx = d2.argmax(axis=1)
        dists[s : s + chunk] = np.ldexp(np.sqrt(d2[np.arange(len(block)), idx]), np.ravel(exps))
        pairs[s : s + chunk, 0] = first[idx] + 1
        pairs[s : s + chunk, 1] = second[idx] + 1
    return dists, pairs
