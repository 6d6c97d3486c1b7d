"""Constructors and validators for communication-weight matrices."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import WeightMatrix

#: Tolerance for row/column sum checks.
SUM_TOL = 1e-12


def _strongly_connected(adjacency: np.ndarray) -> bool:
    """Strong connectivity of the digraph with an edge i -> j iff adjacency[i, j]."""

    def reaches_all(adj: np.ndarray) -> bool:
        n = adj.shape[0]
        seen = np.zeros(n, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            node = stack.pop()
            for nxt in np.nonzero(adj[node])[0]:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append(int(nxt))
        return bool(seen.all())

    return reaches_all(adjacency) and reaches_all(adjacency.T)


def validate(matrix) -> WeightMatrix:
    """Set all five structural flags on a square nonnegative matrix.

    Irreducibility is decided by graph reachability over strictly positive
    off-diagonal entries (an edge exists iff the weight is > 0 exactly).
    """
    w = np.asarray(getattr(matrix, "weights", matrix), dtype=float)
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
    off_row_sums = off.sum(axis=1)
    row_sums = w.sum(axis=1)
    col_sums = w.sum(axis=0)
    off_mask = ~np.eye(n, dtype=bool)

    return WeightMatrix(
        weights=w,
        row_stochastic=bool(np.max(np.abs(off_row_sums - 1.0)) <= SUM_TOL),
        symmetric=bool(np.max(np.abs(w - w.T)) <= SUM_TOL),
        bi_stochastic=bool(
            np.max(np.abs(row_sums - 1.0)) <= SUM_TOL
            and np.max(np.abs(col_sums - 1.0)) <= SUM_TOL
        ),
        positive_off_diagonal=bool(np.all(w[off_mask] > 0.0)),
        irreducible=_strongly_connected(off > 0.0),
    )


def make_uniform(n: int) -> WeightMatrix:
    """All-to-all weights 1/(N-1) with zero diagonal (both entries 1 at N=2)."""
    if n < 2:
        raise ValueError("uniform weights need N >= 2")
    w = np.full((n, n), 1.0 / (n - 1))
    np.fill_diagonal(w, 0.0)
    return validate(w)


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
    return validate(w)


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
    diag = 1.0 - sym.sum(axis=1)
    # The max row lands at exactly zero diagonal up to rounding; clip the dust.
    diag[np.abs(diag) < 1e-12] = np.maximum(diag[np.abs(diag) < 1e-12], 0.0)
    np.fill_diagonal(sym, np.maximum(diag, 0.0))
    return validate(sym)


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


@dataclass
class WeightSpec:
    """Generator recipe for a weight matrix (used by configs and the CLI)."""

    kind: str
    n: int = 2
    min_off_diagonal: Optional[float] = None
    seed: int = 0

    def build(self) -> WeightMatrix:
        if self.kind == "uniform":
            return make_uniform(self.n)
        if self.kind == "random-row-stochastic":
            floor = self.min_off_diagonal
            if floor is None:
                floor = 0.5 / (self.n - 1)
            return make_random_row_stochastic(self.n, floor, self.seed)
        if self.kind == "random-symmetric-bistochastic":
            return make_random_symmetric_bistochastic(self.n, self.seed)
        raise ValueError(f"unknown weight spec kind: {self.kind!r}")
