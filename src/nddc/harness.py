"""Randomized property suites exercising the consensus guarantees."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import (ConstantDatum, ModelKind, SimConfig, Trajectory, aligned_t_end,
                   check_horizon, integer)
from .integrator import run
from .weights import WeightSpec

#: Decay required of d_x(t_end) / d_x(0) by both theorem suites.
DECAY_THRESHOLD = 1e-3
#: Admissible drift of the mean under symmetric reaction weights.
MEAN_DRIFT_THRESHOLD = 1e-10
#: Default instances per suite, and the default horizon of each instance.
SUITE_SIZE = 50
SUITE_T_END = 100.0


@dataclass
class TheoremRun:
    """One random instance of a theorem suite: its config and its run."""

    theorem: str
    config: SimConfig
    trajectory: Trajectory
    decay_ratio: float
    mean_drift: float

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def passed(self) -> bool:
        if self.decay_ratio >= DECAY_THRESHOLD:
            return False
        if self.theorem == "reaction" and self.mean_drift > MEAN_DRIFT_THRESHOLD:
            return False
        return True


def _random_datum(rng: np.random.Generator, n: int, d: int) -> ConstantDatum:
    # Constant-per-agent opinions scaled so the largest agent norm is exactly 1,
    # which pins the datum magnitude bound M = 1 for the a-priori checks.
    while True:
        values = rng.uniform(-1.0, 1.0, size=(n, d))
        norms = np.linalg.norm(values, axis=1)
        if norms.max() > 1e-6 and np.abs(values - values[0]).max() > 1e-6:
            return ConstantDatum(values / norms.max())


def _instance(seed: int, t_end: float, draw, model: ModelKind, weights: str) -> SimConfig:
    # n, d, then (tau, lam) = draw(rng), then the datum, all from one stream;
    # the weight spec of kind ``weights`` draws the weights from its own.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    d = int(rng.integers(1, 4))
    tau, lam = draw(rng)
    m = 32
    return SimConfig(model=model, tau=tau, lam=lam, datum=_random_datum(rng, n, d), n=n, d=d,
                     steps_per_delay=m, t_end=aligned_t_end(tau, m, t_end),
                     weights=WeightSpec(weights, n, seed=seed).build(), seed=seed)


def _transmission_draw(rng: np.random.Generator) -> tuple[float, float]:
    tau = float(rng.uniform(0.1, 0.8))
    return tau, float(rng.uniform(0.0, 1.0)) / tau


def _reaction_draw(rng: np.random.Generator) -> tuple[float, float]:
    tau = float(rng.uniform(0.05, 0.4))
    return tau, float(rng.uniform(tau, 0.49)) / tau - 1.0


def transmission_instance(seed: int, t_end: float = SUITE_T_END) -> SimConfig:
    """Random transmission run satisfying the consensus guarantee lam*tau <= 1."""
    return _instance(seed, t_end, _transmission_draw, ModelKind.TRANSMISSION,
                     "random-row-stochastic")


def reaction_instance(seed: int, t_end: float = SUITE_T_END) -> SimConfig:
    """Random reaction run satisfying the consensus guarantee (1+lam)*tau < 1/2."""
    return _instance(seed, t_end, _reaction_draw, ModelKind.REACTION,
                     "random-symmetric-bistochastic")


def _evaluate(theorem: str, config: SimConfig) -> TheoremRun:
    traj = run(config)
    decay = traj.diameters[-1] / traj.diameters[0]
    drift = float(np.linalg.norm(traj.means - traj.means[0], axis=1).max())
    return TheoremRun(theorem=theorem, config=config, trajectory=traj,
                      decay_ratio=float(decay), mean_drift=drift)


def _suite(theorem: str, make, count: int, base_seed: int, t_end: float) -> Iterator[TheoremRun]:
    # ``count`` is checked here, when the suite is asked for, not at its first instance.
    count = integer("instance count", count, minimum=1)
    return (_evaluate(theorem, make(base_seed + k, t_end)) for k in range(count))


def iter_transmission_suite(
    count: int = SUITE_SIZE, base_seed: int = 0, t_end: float = SUITE_T_END
) -> Iterator[TheoremRun]:
    return _suite("transmission", transmission_instance, count, base_seed, t_end)


def iter_reaction_suite(
    count: int = SUITE_SIZE, base_seed: int = 0, t_end: float = SUITE_T_END
) -> Iterator[TheoremRun]:
    return _suite("reaction", reaction_instance, count, base_seed, t_end)


def check_theorems(report, count: int = SUITE_SIZE, base_seed: int = 0,
                   t_end: float = SUITE_T_END) -> bool:
    """Run both suites, reporting a pass/fail table line by line. True iff all pass.

    ``count`` instances per suite, an integer >= 1; it, ``base_seed`` (an
    integer >= 0, as the generators' random streams need) and ``t_end`` are
    checked before the table's header is reported.
    """
    count = integer("instance count", count, minimum=1)
    base_seed = integer("seed", base_seed, minimum=0)
    check_horizon(t_end)
    all_ok = True
    report(f"{'theorem':<14} {'seed':>5} {'N':>2} {'d':>2} {'tau':>7} "
           f"{'lambda':>8} {'decay':>10} {'drift':>10}  status")
    for suite in (iter_transmission_suite, iter_reaction_suite):
        for result in suite(count=count, base_seed=base_seed, t_end=t_end):
            ok = result.passed
            all_ok = all_ok and ok
            c = result.config
            report(
                f"{result.theorem:<14} {c.seed:>5} {c.n:>2} {c.d:>2} {c.tau:>7.4f} "
                f"{c.lam:>8.4f} {result.decay_ratio:>10.3e} {result.mean_drift:>10.3e}  "
                f"{'pass' if ok else 'FAIL'}"
            )
            # Free the trajectory eagerly; suites at full count hold ~100 runs.
            result.trajectory = None  # type: ignore[assignment]
    return all_ok
