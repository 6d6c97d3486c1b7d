"""Generators of communication-weight matrices and the contraction factor gamma."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import WeightMatrix, integer, real


def make_uniform(n: int) -> WeightMatrix:
    """All-to-all weights 1/(N-1) with zero diagonal (both entries 1 at N=2)."""
    if n < 2:
        raise ValueError("uniform weights need N >= 2")
    w = np.full((n, n), 1.0 / (n - 1))
    np.fill_diagonal(w, 0.0)
    return WeightMatrix(w)


def make_random_row_stochastic(n: int, min_off_diagonal: float, seed: int) -> WeightMatrix:
    """Random zero-diagonal matrix with off-diagonal rows summing to 1.

    Recipe: draw off-diagonal entries uniformly from [min_off_diagonal, 1],
    then rescale each row's off-diagonal block affinely so the floor is
    preserved and the sum is exactly 1. Deterministic given the seed.
    """
    if n < 2:
        raise ValueError("need N >= 2")
    floor = float(min_off_diagonal)
    if not 0.0 < floor <= 1.0 / (n - 1) + 1e-15:
        raise ValueError(f"min_off_diagonal must lie in (0, 1/(N-1)] = (0, {1.0 / (n - 1)}]")
    rng = np.random.default_rng(seed)
    w = np.zeros((n, n))
    slack = 1.0 - (n - 1) * floor
    for i in range(n):
        draw = rng.uniform(floor, 1.0, size=n - 1)
        excess = draw - floor
        total = excess.sum()
        if slack <= 0.0 or total == 0.0:
            row = np.full(n - 1, floor)
        else:
            row = floor + (slack / total) * excess
        w[i, :i] = row[:i]
        w[i, i + 1 :] = row[i:]
    return WeightMatrix(w)


def make_random_symmetric_bistochastic(n: int, seed: int) -> WeightMatrix:
    """Random symmetric bi-stochastic matrix with strictly positive off-diagonal.

    A symmetric positive off-diagonal block is scaled globally so every
    off-diagonal row sum is <= 1; the slack goes on the diagonal, which the
    reaction dynamics never sees. Entries are drawn from [0.1, 1] so no
    subnormal positives are emitted.
    """
    if n < 2:
        raise ValueError("need N >= 2")
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.1, 1.0, size=(n, n))
    sym = 0.5 * (u + u.T)
    np.fill_diagonal(sym, 0.0)
    off_sums = sym.sum(axis=1)
    sym /= off_sums.max()
    # The max row lands at exactly zero diagonal up to rounding; clip the dust.
    np.fill_diagonal(sym, np.maximum(1.0 - sym.sum(axis=1), 0.0))
    return WeightMatrix(sym)


def gamma(matrix: WeightMatrix) -> float:
    """Ergodicity-style contraction factor 1 - (N-2) * min off-diagonal entry.

    For a row-stochastic matrix with positive off-diagonals the value lies in
    (0, 1]; it bounds how far weighted averages over distinct rows can differ
    relative to the opinion diameter.
    """
    if not matrix.positive_off_diagonal:
        raise ValueError("gamma requires strictly positive off-diagonal weights")
    n = matrix.n
    off_mask = ~np.eye(n, dtype=bool)
    psi_min = float(matrix.weights[off_mask].min())
    return 1.0 - (n - 2) * psi_min


@dataclass(frozen=True)
class WeightSpec:
    """Generator recipe for a weight matrix (used by configs and the CLI).

    The seed must be >= 0, as every generator's random stream needs, and
    ``min_off_diagonal`` (default 0.5/(n-1)) is for random-row-stochastic only.
    Frozen, as ``SimConfig`` is: a spec is judged once, when it is built.
    """

    kind: str
    n: int = 2
    min_off_diagonal: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "random-row-stochastic", "random-symmetric-bistochastic"):
            raise ValueError(f"unknown weight spec kind: {self.kind!r}")
        object.__setattr__(self, "n", integer("n", self.n))
        object.__setattr__(self, "seed", integer("seed", self.seed, minimum=0))
        if self.min_off_diagonal is not None:
            if self.kind != "random-row-stochastic":
                raise ValueError("min_off_diagonal applies to random-row-stochastic weights only")
            object.__setattr__(self, "min_off_diagonal",
                               real("min_off_diagonal", self.min_off_diagonal))

    def build(self) -> WeightMatrix:
        if self.kind == "uniform":
            return make_uniform(self.n)
        if self.kind == "random-symmetric-bistochastic":
            return make_random_symmetric_bistochastic(self.n, self.seed)
        floor = self.min_off_diagonal
        return make_random_row_stochastic(
            self.n, floor if floor is not None else 0.5 / (self.n - 1), self.seed)
