"""Shared domain types: opinion states, weights, datums, configs, run records."""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

MACHINE_EPS = float(np.finfo(float).eps)

#: Abort a run once the opinion diameter exceeds this multiple of max(1, d_x(0)).
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


class DerivativeMode(str, enum.Enum):
    """How the delayed derivative entering the anticipation term is evaluated.

    BACKWARD_DIFFERENCE recomputes (x(k) - x(k-1)) / dt from stored states;
    STORED_RHS reuses the right-hand side recorded when node k was accepted.
    Inside the initial-datum window both read the datum's analytic derivative.
    """

    BACKWARD_DIFFERENCE = "backward-difference"
    STORED_RHS = "stored-rhs"


class Classification(str, enum.Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    INCONCLUSIVE = "inconclusive"


@dataclass
class OpinionState:
    """Stack of agent opinion vectors (N x d) at one mesh time.

    Agent indices reported by any public operation are 1-based, matching the
    convention that agents are numbered 1..N.
    """

    values: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("opinion state must be an N x d matrix")
        n, d = self.values.shape
        if n < 2 or d < 1:
            raise ValueError(f"opinion state needs N >= 2 agents and d >= 1, got {n} x {d}")
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteStateError("opinion state contains non-finite entries")

    @property
    def n_agents(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass
class WeightMatrix:
    """Nonnegative N x N communication weights plus validated structural flags.

    Flags are set by ``weights.validate``; constructors return matrices with
    all five flags populated, and ``SimConfig`` re-derives them for N-agent
    models, so the flags of a hand-built matrix are never trusted.
    ``row_stochastic`` refers to off-diagonal row sums (the diagonal is ignored
    by the transmission model and cancels in the reaction model), while
    ``bi_stochastic`` refers to full row and column sums.
    """

    weights: np.ndarray
    row_stochastic: bool = False
    symmetric: bool = False
    bi_stochastic: bool = False
    positive_off_diagonal: bool = False
    irreducible: bool = False

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def off_diagonal(self) -> np.ndarray:
        """The matrix with the diagonal zeroed (read-only view when already zero)."""
        if not self.weights.diagonal().any():
            return self.weights
        w = self.weights.copy()
        np.fill_diagonal(w, 0.0)
        return w


@dataclass
class ConstantDatum:
    """Initial trajectories x0(t) = c with zero derivative."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))

    def on_mesh(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        k = len(times)
        states = np.repeat(self.values[None, :, :], k, axis=0)
        return states, np.zeros_like(states)


@dataclass
class LinearDatum:
    """Initial trajectories x0(t) = a + t * b with derivative b."""

    start: np.ndarray
    slope: np.ndarray

    def __post_init__(self) -> None:
        self.start = np.atleast_2d(np.asarray(self.start, dtype=float))
        self.slope = np.atleast_2d(np.asarray(self.slope, dtype=float))
        if self.start.shape != self.slope.shape:
            raise ValueError("start and slope must have the same shape")

    def on_mesh(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        times = np.asarray(times, dtype=float)
        states = self.start[None, :, :] + times[:, None, None] * self.slope[None, :, :]
        derivs = np.repeat(self.slope[None, :, :], len(times), axis=0)
        return states, derivs


@dataclass
class SampledDatum:
    """Initial trajectories given as mesh-aligned (time, state, derivative) samples."""

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        self.derivs = np.asarray(self.derivs, dtype=float)
        if self.states.shape != self.derivs.shape or len(self.times) != len(self.states):
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
        return self.states.copy(), self.derivs.copy()


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


@dataclass
class SimConfig:
    """Full description of one simulation run."""

    model: ModelKind
    tau: float
    lam: float
    datum: Datum
    n: int = 2
    d: int = 1
    steps_per_delay: int = 32
    t_end: float = 50.0
    weights: Optional[WeightMatrix] = None
    derivative_mode: DerivativeMode = DerivativeMode.BACKWARD_DIFFERENCE
    seed: int = 0

    def __post_init__(self) -> None:
        self.model = ModelKind(self.model)
        self.derivative_mode = DerivativeMode(self.derivative_mode)
        for name, value in (("tau", self.tau), ("lambda", self.lam), ("t_end", self.t_end)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        # A fractional step count would keep dt = tau / m but delay by int(m) steps.
        self.steps_per_delay = integer("steps_per_delay", self.steps_per_delay, minimum=1)
        self.n = integer("n", self.n, minimum=1)
        self.d = integer("d", self.d, minimum=1)
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        # The seed is only a label in manifests; any integer, negative included.
        self.seed = integer("seed", self.seed)
        if self.weights is not None and not self.model.is_scalar:
            # Re-derive the flags so a hand-built WeightMatrix is checked (square,
            # finite, nonnegative) and its flags are true. Imported here because
            # the weights module imports this one.
            from .weights import validate

            self.weights = validate(self.weights)


@dataclass
class ClassificationEvidence:
    """Trailing-window amplitude statistics backing a run classification."""

    initial_dx: float
    final_dx: float
    trailing_peak: float
    trailing_ratio: float
    aborted: bool = False
    abort_step: Optional[int] = None


@dataclass
class Trajectory:
    """Recorded time series of one run plus per-step diagnostics.

    ``states`` and ``derivatives`` have shape (K+1, N, d) over mesh nodes
    0..K (t >= 0). ``argmax_pairs`` holds the 1-based agent pair attaining the
    diameter at each node; for the two-agent scalar reductions the stored state
    is the gap x1 - x2, the diameter series is |x|, and the pair is (1, 2).
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

    def state_at(self, node: int) -> np.ndarray:
        return self.states[node]


def _as_values(state) -> np.ndarray:
    values = getattr(state, "values", state)
    return np.asarray(values, dtype=float)


def diameter(state) -> tuple[float, tuple[int, int]]:
    """Maximum pairwise Euclidean distance and the attaining agent pair.

    Ties are broken by the lexicographically smallest 1-based pair (i, j),
    i < j, so the result is a total order over argmax candidates.
    """
    values = _as_values(state)
    if values.ndim != 2 or values.shape[0] < 2:
        raise ValueError("diameter needs an N x d state with N >= 2")
    if not np.all(np.isfinite(values)):
        raise NonFiniteStateError("diameter of a non-finite state")
    dists, pairs = diameter_series(values[None, :, :])
    return float(dists[0]), (int(pairs[0, 0]), int(pairs[0, 1]))


def diameter_series(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diameters and 1-based argmax pairs of a (T, N >= 2, d) stack, over the pairs
    i < j in lexicographic order, so ties (and NaN) go to the smallest (i, j)."""
    states = np.asarray(states, dtype=float)
    t_total, n, d = states.shape
    first, second = np.triu_indices(n, 1)
    dists = np.empty(t_total)
    pairs = np.empty((t_total, 2), dtype=int)
    chunk = max(1, 65536 // max(1, len(first) * d))
    for s in range(0, t_total, chunk):
        block = states[s : s + chunk]
        diff = np.take(block, first, axis=1) - np.take(block, second, axis=1)
        d2 = np.einsum("tpk,tpk->tp", diff, diff)
        idx = d2.argmax(axis=1)
        dists[s : s + chunk] = np.sqrt(d2[np.arange(len(block)), idx])
        pairs[s : s + chunk, 0] = first[idx] + 1
        pairs[s : s + chunk, 1] = second[idx] + 1
    return dists, pairs


def mean(state) -> np.ndarray:
    """Arithmetic mean of the agent opinion vectors (a d-vector)."""
    values = _as_values(state)
    if values.ndim != 2 or values.shape[0] < 1:
        raise ValueError("mean needs an N x d state")
    if not np.all(np.isfinite(values)):
        raise NonFiniteStateError("mean of a non-finite state")
    return values.mean(axis=0)
