"""Weight generator and structural flag tests."""

import numpy as np
import pytest

from nddc.core import SUM_TOL, WeightMatrix
from nddc.weights import (
    WeightSpec,
    gamma,
    make_random_row_stochastic,
    make_random_symmetric_bistochastic,
    make_uniform,
)


class TestUniform:
    @pytest.mark.parametrize("n,expected", [(2, 1.0), (3, 0.5), (5, 0.25)])
    def test_off_diagonal_value(self, n, expected):
        wm = make_uniform(n)
        off = wm.weights[~np.eye(n, dtype=bool)]
        assert np.all(off == expected)
        assert np.all(np.diag(wm.weights) == 0.0)

    def test_flags(self):
        wm = make_uniform(4)
        assert wm.row_stochastic and wm.symmetric and wm.positive_off_diagonal
        assert wm.irreducible and wm.bi_stochastic

    def test_rejects_single_agent(self):
        with pytest.raises(ValueError):
            make_uniform(1)


class TestRandomRowStochastic:
    def test_rows_sum_to_one(self):
        for seed in range(20):
            n = 4
            wm = make_random_row_stochastic(n, 0.1, seed)
            sums = wm.off_diagonal().sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) <= SUM_TOL

    def test_floor_respected(self):
        wm = make_random_row_stochastic(5, 0.2, seed=3)
        off = wm.weights[~np.eye(5, dtype=bool)]
        assert off.min() >= 0.2 - 1e-15

    def test_saturated_floor_gives_uniform(self):
        wm = make_random_row_stochastic(3, 0.5, seed=9)
        np.testing.assert_allclose(wm.weights, make_uniform(3).weights, atol=1e-15)

    def test_deterministic_in_seed(self):
        a = make_random_row_stochastic(4, 0.05, seed=7)
        b = make_random_row_stochastic(4, 0.05, seed=7)
        assert np.array_equal(a.weights, b.weights)
        c = make_random_row_stochastic(4, 0.05, seed=8)
        assert not np.array_equal(a.weights, c.weights)

    def test_infeasible_floor_rejected(self):
        with pytest.raises(ValueError):
            make_random_row_stochastic(4, 0.5, seed=0)
        with pytest.raises(ValueError):
            make_random_row_stochastic(4, 0.0, seed=0)

    def test_flags_for_all_seeds(self):
        for seed in range(25):
            n = int(np.random.default_rng(seed).integers(2, 9))
            wm = make_random_row_stochastic(n, 0.3 / (n - 1), seed)
            assert wm.row_stochastic and wm.positive_off_diagonal and wm.irreducible


class TestRandomSymmetricBistochastic:
    def test_structure(self):
        for seed in range(20):
            wm = make_random_symmetric_bistochastic(5, seed)
            w = wm.weights
            assert np.max(np.abs(w - w.T)) <= SUM_TOL
            assert np.max(np.abs(w.sum(axis=0) - 1.0)) <= SUM_TOL
            assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= SUM_TOL
            assert np.all(w >= 0.0)
            assert wm.symmetric and wm.bi_stochastic and wm.irreducible
            assert wm.positive_off_diagonal

    def test_two_agents_permit_zero_diagonal(self):
        wm = make_random_symmetric_bistochastic(2, seed=1)
        assert wm.weights[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert wm.weights[0, 0] == pytest.approx(0.0, abs=1e-12)


class TestValidate:
    """WeightMatrix checks the matrix and computes its flags when it is built."""

    def test_disconnected_cliques(self):
        block = np.array([
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ], dtype=float)
        wm = WeightMatrix(block)
        assert not wm.irreducible
        assert wm.symmetric

    def test_directed_ring(self):
        n = 5
        ring = np.zeros((n, n))
        for i in range(n):
            ring[i, (i + 1) % n] = 1.0
        wm = WeightMatrix(ring)
        assert wm.irreducible
        assert wm.row_stochastic
        assert not wm.symmetric
        assert not wm.positive_off_diagonal

    def test_uniform_all_flags(self):
        wm = WeightMatrix(make_uniform(3).weights)
        assert all([wm.row_stochastic, wm.symmetric, wm.bi_stochastic,
                    wm.positive_off_diagonal, wm.irreducible])

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="weight matrix has negative entries"):
            WeightMatrix(np.array([[0.0, -0.1], [1.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="weight matrix must be square"):
            WeightMatrix(np.ones((2, 3)))

    @pytest.mark.parametrize("matrix,message", [
        (np.ones(3), "weight matrix must be square"),
        (np.ones((1, 1)), "weight matrix needs at least two agents"),
        ([[0.0, np.nan], [1.0, 0.0]], "weight matrix has non-finite entries"),
        ([[0.0, np.inf], [1.0, 0.0]], "weight matrix has non-finite entries"),
    ])
    def test_invalid_matrix_rejected_at_construction(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            WeightMatrix(matrix)

    def test_flags_are_not_arguments(self):
        with pytest.raises(TypeError):
            WeightMatrix(np.ones((2, 2)), row_stochastic=True)

    def test_frozen_read_only_copy(self):
        source = np.array([[0.0, 1.0], [1.0, 0.0]])
        wm = WeightMatrix(source)
        source[0, 1] = 0.5
        assert wm.weights[0, 1] == 1.0 and wm.row_stochastic
        with pytest.raises(ValueError, match="read-only"):
            wm.weights[0, 1] = 0.5
        with pytest.raises(AttributeError):
            wm.row_stochastic = False

    def test_idempotent(self):
        wm = make_random_row_stochastic(4, 0.1, seed=2)
        again = WeightMatrix(wm.weights)
        for flag in ("row_stochastic", "symmetric", "bi_stochastic",
                     "positive_off_diagonal", "irreducible"):
            assert getattr(again, flag) == getattr(wm, flag)


class TestGamma:
    @pytest.mark.parametrize("n,expected", [(3, 0.5), (2, 1.0), (5, 0.25)])
    def test_uniform_values(self, n, expected):
        assert gamma(make_uniform(n)) == pytest.approx(expected)

    def test_requires_positive_off_diagonal(self):
        ring = np.zeros((3, 3))
        ring[0, 1] = ring[1, 2] = ring[2, 0] = 1.0
        with pytest.raises(ValueError):
            gamma(WeightMatrix(ring))

    def test_lower_bound_for_row_stochastic(self):
        for seed in range(20):
            n = 3 + seed % 5
            wm = make_random_row_stochastic(n, 0.2 / (n - 1), seed)
            assert gamma(wm) >= 1.0 - (n - 2) / (n - 1) - 1e-12
            assert gamma(wm) <= 1.0


class TestWeightSpec:
    def test_kinds(self):
        assert WeightSpec(kind="uniform", n=3).build().row_stochastic
        assert WeightSpec(kind="random-row-stochastic", n=4, seed=1).build().row_stochastic
        assert WeightSpec(kind="random-symmetric-bistochastic", n=4, seed=1).build().bi_stochastic
        with pytest.raises(ValueError):
            WeightSpec(kind="bogus").build()

    @pytest.mark.parametrize("kind", ["uniform", "random-row-stochastic",
                                      "random-symmetric-bistochastic"])
    def test_negative_seed_rejected_for_every_kind(self, kind):
        # The generators draw from default_rng(seed), which needs seed >= 0;
        # uniform weights used to accept the seed they ignore.
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            WeightSpec(kind=kind, n=3, seed=-1)

    @pytest.mark.parametrize("key,value", [("n", "3"), ("seed", True)])
    def test_non_integers_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            WeightSpec(kind="random-symmetric-bistochastic", **{key: value})

    def test_min_off_diagonal_only_for_random_row(self):
        with pytest.raises(ValueError, match="random-row-stochastic weights only"):
            WeightSpec(kind="uniform", n=3, min_off_diagonal=0.2)
        with pytest.raises(ValueError, match="min_off_diagonal must be a real number"):
            WeightSpec(kind="random-row-stochastic", n=3, min_off_diagonal="0.2")
        spec = WeightSpec(kind="random-row-stochastic", n=3, min_off_diagonal=0.2, seed=4)
        assert np.array_equal(spec.build().weights,
                              make_random_row_stochastic(3, 0.2, seed=4).weights)
